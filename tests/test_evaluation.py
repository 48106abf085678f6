import random
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from cipherclust.cli import _emit
from cipherclust.clustering import ClusteringError, cluster_index, write_clusters
from cipherclust.evaluation import (
    BENCHMARK_REPEATS,
    EvaluationError,
    EvaluationReport,
    cluster_coherence,
    coherence_report,
    compare,
    load_embeddings,
    load_judgments,
    load_queries,
    read_results_file,
    run_benchmark,
    tsap_at_10,
    write_results_file,
)
from cipherclust.crypto import IdentityTokenCodec, encrypt_query
from cipherclust.evaluation import EmbeddingTable
from cipherclust.index import build_index_from_corpus, ingest
from cipherclust.search import SearchResult, build_abstracts, prune, search


H10 = sum(1.0 / i for i in range(1, 11))


def table_from(vectors: dict[str, list[float]]) -> EmbeddingTable:
    return EmbeddingTable(
        dimension=len(next(iter(vectors.values()))),
        vectors={w: np.array(v, dtype=float) for w, v in vectors.items()},
        digest="test",
    )


class TestLoadEmbeddings:
    def test_load(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("Alpha 1 0\nbeta 0 1\n")
        table = load_embeddings(path)
        assert table.dimension == 2
        assert "alpha" in table.vectors  # lowercased on load

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 0\nb 0 1 2\n")
        with pytest.raises(EvaluationError):
            load_embeddings(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("\n")
        with pytest.raises(EvaluationError):
            load_embeddings(path)

    @pytest.mark.parametrize("component", ["abc", "nan", "inf", "-inf", "1e999"])
    def test_non_finite_component_rejected(self, tmp_path, component):
        path = tmp_path / "emb.txt"
        path.write_text(f"a 1.0 0.5\nfoo 1.0 {component}\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:2: vector of 'foo'")):
            load_embeddings(path)

    def test_word_repeated_after_lower_case_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("Alpha 1 0\n\nbeta 1 1\nalpha 0 1\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:4: word 'alpha' is also on line 1")):
            load_embeddings(path)

    def test_bundled_table(self, embeddings_path):
        table = load_embeddings(embeddings_path)
        assert table.dimension == 8
        assert len(table.vectors) == 50


class TestClusterCoherence:
    def test_identical_words(self):
        table = table_from({"net": [1.0, 0.0]})
        coherence, embeddable = cluster_coherence(["net", "net"], table)
        assert (coherence, embeddable) == (pytest.approx(1.0), 2)

    def test_orthogonal_pair(self):
        table = table_from({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        coherence, embeddable = cluster_coherence(["a", "b"], table)
        assert (coherence, embeddable) == (pytest.approx(0.0, abs=1e-12), 2)

    def test_mean_of_three_pairwise_cosines(self):
        # three unit vectors with pairwise cosines exactly 0.2, 0.4, 0.6
        gram = np.array([[1.0, 0.2, 0.4], [0.2, 1.0, 0.6], [0.4, 0.6, 1.0]])
        vecs = np.linalg.cholesky(gram)
        table = table_from({"a": vecs[0], "b": vecs[1], "c": vecs[2]})
        coherence, embeddable = cluster_coherence(["a", "b", "c"], table)
        assert (coherence, embeddable) == (pytest.approx(0.4, abs=1e-9), 3)

    def test_oov_words_skipped(self):
        table = table_from({"a": [1.0, 0.0], "b": [1.0, 0.0]})
        coherence, embeddable = cluster_coherence(["a", "b", "notthere"], table)
        assert (coherence, embeddable) == (pytest.approx(1.0), 2)

    def test_fewer_than_two_embeddable_is_unscorable(self):
        table = table_from({"a": [1.0, 0.0], "z": [0.0, 0.0]})
        assert cluster_coherence(["a", "x"], table) == (None, 1)
        assert cluster_coherence(["x", "y"], table) == (None, 0)
        assert cluster_coherence(["a", "z"], table) == (None, 1)  # a zero vector is not embeddable

    def test_bounded(self):
        rng = np.random.default_rng(1)
        table = table_from({f"w{i}": rng.normal(size=5).tolist() for i in range(12)})
        got, embeddable = cluster_coherence([f"w{i}" for i in range(12)], table)
        assert -1.0 - 1e-9 <= got <= 1.0 + 1e-9
        assert embeddable == 12

    def test_matches_pairwise_loop_in_linear_memory(self):
        rng = np.random.default_rng(5)
        small = table_from({f"w{i}": rng.normal(size=6).tolist() for i in range(9)})
        unit = [v / np.linalg.norm(v) for v in small.vectors.values()]
        pairs = [float(unit[i] @ unit[j]) for i in range(9) for j in range(i + 1, 9)]
        got, embeddable = cluster_coherence(list(small.vectors), small)
        assert got == pytest.approx(sum(pairs) / len(pairs), rel=0, abs=1e-12)
        assert embeddable == 9

        # an n x n Gram matrix over these would need 512 MB
        big = table_from({f"w{i}": v for i, v in enumerate(rng.normal(size=(8000, 8)).tolist())})
        words = list(big.vectors)
        tracemalloc.start()
        try:
            cluster_coherence(words, big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestCoherenceReport:
    def test_report_over_identity_clusters(self, mini_corpus_dir, embeddings_path):
        index = build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), n=20)
        clusters, _ = cluster_index(index, k="auto")
        table = load_embeddings(embeddings_path)
        report = coherence_report(clusters, table)
        assert len(report.per_cluster) == clusters.k_used
        scorable = [c.coherence for c in report.per_cluster if c.coherence is not None]
        assert report.overall == pytest.approx(sum(scorable) / len(scorable))
        for entry in report.per_cluster:
            size = len(clusters.clusters[entry.cluster].tokens)
            assert entry.embeddable_tokens + entry.skipped_tokens == size

    def test_a_zero_vector_word_is_counted_as_skipped(self):
        # a word the table holds with a zero vector has no direction, so coherence skips it
        # and the counts say so: embeddable + skipped is still the cluster's size
        table = table_from({"a": [1.0, 0.0], "b": [0.0, 0.0], "c": [0.0, 1.0]})
        for members, coherence, embeddable in (([b"a", b"b", b"c"], 0.0, 2), ([b"a", b"b"], None, 1)):
            clusters, _ = cluster_index(ingest([("d1", [(t, 1) for t in members])]), k=1)
            (entry,) = coherence_report(clusters, table).per_cluster
            assert (entry.coherence, entry.embeddable_tokens, entry.skipped_tokens) == (
                coherence, embeddable, len(members) - embeddable)

    def test_ciphertext_clusters_rejected(self, embeddings_path):
        idx = ingest([("d1", [(b"\xff\xfe", 3), (b"\xaa\xbb", 2)])])
        clusters, _ = cluster_index(idx, k=1)
        with pytest.raises(EvaluationError):
            coherence_report(clusters, load_embeddings(embeddings_path))

    def test_report_json_round_trip(self, tmp_path, mini_corpus_dir, embeddings_path):
        index = build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), n=20)
        clusters, _ = cluster_index(index, k="auto")
        report = coherence_report(clusters, load_embeddings(embeddings_path))
        path = tmp_path / "report.json"
        _emit(asdict(report), str(path))
        again = EvaluationReport.load(path)
        read = (again.overall, again.corpus_sha256, again.embeddings_sha256)
        assert read == (report.overall, report.corpus_sha256, report.embeddings_sha256)

    @pytest.mark.parametrize(
        "text",
        [
            '{"overall": 0.5, "corpus_sha256": "x", "embeddings_sha256": null}',
            '{"overall": "0.5", "corpus_sha256": "x", "embeddings_sha256": "y"}',
            '{"overall": true, "corpus_sha256": "x", "embeddings_sha256": "y"}',
            # json.loads reads these three, but compare would print them as no JSON reader accepts
            '{"overall": NaN, "corpus_sha256": "x", "embeddings_sha256": "y"}',
            '{"overall": Infinity, "corpus_sha256": "x", "embeddings_sha256": "y"}',
            '{"overall": -Infinity, "corpus_sha256": "x", "embeddings_sha256": "y"}',
            '{"overall": 0.5, "corpus_sha256": 7, "embeddings_sha256": "y"}',
            '{"overall": 0.5, "embeddings_sha256": "y"}',
            '[0.5]',
            'overall = 0.5',
        ],
        ids=["null-embeddings", "string-overall", "bool-overall", "nan-overall", "infinite-overall",
             "negative-infinite-overall", "integer-corpus", "no-corpus", "list", "not-json"],
    )
    def test_load_rejects_what_is_not_a_coherence_report(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        with pytest.raises(EvaluationError, match=re.escape(f"{path}: not a coherence report")):
            EvaluationReport.load(path)


class TestTsap:
    def test_all_irrelevant(self):
        judgments = {("q", f"d{i}"): 0 for i in range(10)}
        assert tsap_at_10([f"d{i}" for i in range(10)], judgments, "q") == 0.0

    def test_only_rank_one_relevant(self):
        judgments = {("q", "d0"): 2}
        assert tsap_at_10(["d0"] + [f"d{i}" for i in range(1, 10)], judgments, "q") == pytest.approx(0.1)

    def test_all_ten_relevant(self):
        judgments = {("q", f"d{i}"): 2 for i in range(10)}
        got = tsap_at_10([f"d{i}" for i in range(10)], judgments, "q")
        assert got == pytest.approx(H10 / 10, abs=1e-12)

    def test_partial_grade_is_half(self):
        assert tsap_at_10(["d0"], {("q", "d0"): 1}, "q") == pytest.approx(0.05)

    def test_unjudged_counts_zero(self):
        assert tsap_at_10(["d0", "d1"], {}, "q") == 0.0

    def test_short_ranking_pads_with_zero(self):
        judgments = {("q", "d0"): 2}
        assert tsap_at_10(["d0"], judgments, "q") == pytest.approx(0.1)

    def test_rejects_overlong_ranking(self):
        with pytest.raises(EvaluationError):
            tsap_at_10([f"d{i}" for i in range(11)], {}, "q")

    def test_upgrades_never_decrease(self):
        rng = np.random.default_rng(17)
        docs = [f"d{i}" for i in range(10)]
        for _ in range(200):
            grades = {("q", d): int(rng.integers(0, 3)) for d in docs}
            before = tsap_at_10(docs, grades, "q")
            doc = docs[int(rng.integers(0, 10))]
            if grades[("q", doc)] < 2:
                grades[("q", doc)] += 1
            assert tsap_at_10(docs, grades, "q") >= before

    def test_swapping_equal_grades_changes_nothing(self):
        judgments = {("q", "a"): 2, ("q", "b"): 2, ("q", "c"): 1}
        assert tsap_at_10(["a", "b", "c"], judgments, "q") == tsap_at_10(
            ["b", "a", "c"], judgments, "q"
        )


class TestStaticBaseline:
    def test_k_fixed_1_single_cluster(self, example_index):
        cs, _ = cluster_index(example_index, k=1)
        assert cs.k_used == 1
        assert set(cs.cluster_of) == set(example_index.tokens())

    def test_enough_admissible_tokens_gives_exactly_k(self):
        records = [(f"d{i:02d}", [(f"t{i:02d}".encode(), 2)]) for i in range(12)]
        cs, _ = cluster_index(ingest(records), k=10)
        assert cs.k_used == 10

    def test_fixed_k_equal_to_estimate_reproduces_dynamic_path(self, tmp_path, example_index):
        dynamic, est = cluster_index(example_index, k="auto")
        static, _ = cluster_index(example_index, k=est.k)
        p1, p2 = tmp_path / "dyn.jsonl", tmp_path / "sta.jsonl"
        write_clusters(dynamic, p1)
        write_clusters(static, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_k_must_be_positive(self, example_index):
        with pytest.raises(ClusteringError):
            cluster_index(example_index, k=0)


class TestCompare:
    def _report(self, overall, corpus="x", emb="y"):
        return EvaluationReport(overall=overall, corpus_sha256=corpus, embeddings_sha256=emb)

    def test_identical_reports(self):
        got = compare(self._report(0.5), self._report(0.5))
        assert got["improvement_pct"] == pytest.approx(0.0)
        assert got["flags"] == []

    def test_sixty_percent_improvement(self):
        got = compare(self._report(0.32), self._report(0.20))
        assert got["improvement_pct"] == pytest.approx(60.0)

    def test_undefined_when_static_unscorable(self):
        got = compare(self._report(0.32), self._report(None))
        assert got["improvement_pct"] is None
        assert "comparison_undefined" in got["flags"]

    def test_flag_when_dynamic_below_static(self):
        got = compare(self._report(0.10), self._report(0.20))
        assert got["improvement_pct"] == pytest.approx(-50.0)
        assert "dynamic_below_static" in got["flags"]

    def test_corpus_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            compare(self._report(0.5, corpus="a"), self._report(0.5, corpus="b"))


class TestFilesAndBenchmark:
    @pytest.mark.parametrize("reader, good, expected", [
        (load_judgments, "q1\td1\t2", "queryId<TAB>docId<TAB>grade"),
        (load_queries, "q1\tgarlic sauce", "queryId<TAB>query text"),
        (read_results_file, "q1\t1\td1\t4", "queryId, rank, docId, score"),
    ])
    def test_tsv_rows_skip_comments_and_count_fields(self, tmp_path, reader, good, expected):
        path = tmp_path / "rows.tsv"
        path.write_text(f"# a\tcomment\n{good}\n")
        assert reader(path)
        for wrong in (f"{good}\textra", good.rsplit("\t", 1)[0]):
            path.write_text(f"# a\tcomment\n{good}\n{wrong}\n")
            with pytest.raises(EvaluationError, match=f"^{re.escape(f'{path}:3: expected {expected}')}$"):
                reader(path)

    def test_judgments_and_queries_files(self, judgments_path, queries_path):
        judgments = load_judgments(judgments_path)
        queries = load_queries(queries_path)
        assert len(queries) == 10
        assert all(g in (0, 1, 2) for g in judgments.values())

    def test_repeated_query_id_rejected(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\tnet router\n# note\nq2\tdough\nq1\tgravy\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:4: query id 'q1' is also on line 1")):
            load_queries(path)

    def test_bad_grade_rejected(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("q1\td1\t7\n")
        with pytest.raises(EvaluationError):
            load_judgments(path)

    def test_non_integer_grade_rejected(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("q1\td1\t2\nq1\td2\tx\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:2: grade 'x' is not an integer")):
            load_judgments(path)

    def test_non_integer_rank_rejected(self, tmp_path):
        path = tmp_path / "results.tsv"
        path.write_text("q1\t1\td2\t9\nq1\t2.0\td1\t3\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:2: rank '2.0' is not an integer")):
            read_results_file(path)

    @pytest.mark.parametrize("score", ["banana", "-7", "4.0", "07", ""])
    def test_malformed_score_rejected(self, tmp_path, score):
        path = tmp_path / "results.tsv"
        path.write_text(f"q1\t1\td2\t9\nq1\t2\td1\t{score}\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:2: score {score!r} is not an integer")):
            read_results_file(path)

    def test_repeated_rank_rejected(self, tmp_path):
        path = tmp_path / "results.tsv"
        path.write_text("q1\t1\td2\t9\nq2\t1\td2\t9\nq1\t1\td1\t3\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:3: query 'q1' has rank 1 twice")):
            read_results_file(path)

    # int() accepts each of these; write_results_file and the judgments file write none of them
    NON_CANONICAL = ["+1", "-1", " 1", "1 ", "1_0", "01", "00", "１"]

    @pytest.mark.parametrize("grade", NON_CANONICAL)
    def test_non_canonical_grade_rejected(self, tmp_path, grade):
        path = tmp_path / "j.tsv"
        path.write_text(f"q1\td1\t2\nq1\td2\t{grade}\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:2: grade {grade!r} is not an integer")):
            load_judgments(path)

    @pytest.mark.parametrize("rank", NON_CANONICAL)
    def test_non_canonical_rank_rejected(self, tmp_path, rank):
        path = tmp_path / "results.tsv"
        path.write_text(f"q1\t{rank}\td2\t9\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:1: rank {rank!r} is not an integer")):
            read_results_file(path)

    def test_rank_zero_rejected(self, tmp_path):
        path = tmp_path / "results.tsv"
        path.write_text("q1\t0\td2\t9\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:1: query 'q1' has rank 0 where rank 1 is due")):
            read_results_file(path)

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "results.tsv"
        path.write_text("q1\t1\td2\t9\nq2\t1\td2\t9\nq1\t3\td1\t3\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:3: query 'q1' has rank 3 where rank 2 is due")):
            read_results_file(path)

    def test_ranks_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "results.tsv"
        path.write_text("q1\t2\td1\t3\nq1\t1\td2\t9\n")
        with pytest.raises(EvaluationError, match=re.escape(f"{path}:1: query 'q1' has rank 2 where rank 1 is due")):
            read_results_file(path)

    def test_rank_past_the_tsap_cutoff_rejected(self, tmp_path):
        # evaluate search --top 20 writes such a file; TSAP reads at most 10 ranks per query
        path = tmp_path / "results.tsv"
        path.write_text("q00\t1\td1\t4\n" + "".join(f"q01\t{rank}\td{rank}\t9\n" for rank in range(1, 12)))
        with pytest.raises(EvaluationError, match="^" + re.escape(f"{path}:12: query 'q01' has rank 11, past")):
            read_results_file(path)
        path.write_text("".join(f"q01\t{rank}\td{rank}\t9\n" for rank in range(1, 11)))
        assert len(read_results_file(path)["q01"]) == 10

    def test_results_file_round_trip(self, tmp_path):
        results = {
            "q1": SearchResult(ranked=(("d2", 9), ("d1", 3))),
            "q2": SearchResult(ranked=()),
        }
        path = tmp_path / "results.tsv"
        write_results_file(results, path)
        assert read_results_file(path) == {"q1": ["d2", "d1"]}

    def test_run_benchmark_structure(self, mini_corpus_dir, queries_path):
        index = build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), n=20)
        clusters, _ = cluster_index(index, k="auto")
        abstracts = build_abstracts(clusters, a=100)
        queries = load_queries(queries_path)
        results, timings = run_benchmark(
            queries, clusters, abstracts, IdentityTokenCodec(), prune_width=3, cutoff=10
        )
        assert set(results) == {q for q, _ in queries}
        assert len(timings) == len(queries)
        for timing in timings:
            assert timing.pruned_ms > 0 and timing.full_ms > 0
            assert 1 <= timing.clusters_searched <= clusters.k_used
        for result in results.values():
            assert len(result.ranked) <= 10

    def test_run_benchmark_times_each_path_in_its_own_pass(self, monkeypatch, mini_corpus_dir, queries_path):
        # a fake clock that only search and prune advance, each call by its own amount: each timing
        # must be the least of BENCHMARK_REPEATS back-to-back calls of its path alone
        import cipherclust.evaluation as evaluation

        index = build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), n=20)
        clusters, _ = cluster_index(index, k="auto")
        abstracts = build_abstracts(clusters, a=100)
        queries = load_queries(queries_path)
        rng, clock, events = random.Random(3), [0], []

        def counted(name, fn):
            def call(*args):
                cost = rng.randrange(1, 10**6)
                clock[0] += cost
                events.append((name, args, cost))
                return fn(*args)
            return call

        def perf_counter_ns():
            events.append("clock")
            return clock[0]

        monkeypatch.setattr(evaluation, "search", counted("search", search))
        monkeypatch.setattr(evaluation, "prune", counted("prune", prune))
        monkeypatch.setattr(evaluation.time, "perf_counter_ns", perf_counter_ns)
        results, timings = run_benchmark(queries, clusters, abstracts, IdentityTokenCodec(), prune_width=3, cutoff=10)
        monkeypatch.undo()

        n = BENCHMARK_REPEATS
        per_query = 2 + 3 * 3 * n  # prune and search untimed, then clock, call, clock n times per path
        assert len(events) == len(queries) * per_query
        assert list(results) == [q for q, _ in queries]
        for (query_id, text), timing, at in zip(queries, timings, range(0, len(events), per_query), strict=True):
            tokens = encrypt_query(IdentityTokenCodec(), text)
            selected = prune(tokens, abstracts, 3)
            assert results[query_id] == search(tokens, clusters, selected, 10)
            assert (timing.query, timing.clusters_searched) == (query_id, len(selected))
            pruned, full = (tokens, clusters, selected, 10), (tokens, clusters, range(clusters.k_used), 10)
            prune_args = (tokens, abstracts, 3)
            assert [event[:2] for event in events[at:at + 2]] == [("prune", prune_args), ("search", pruned)]
            paths = ((timing.pruned_ms, "search", pruned), (timing.full_ms, "search", full),
                     (timing.prune_ms, "prune", prune_args))
            for i, (ms, name, args) in enumerate(paths):
                runs = events[at + 2 + 3 * n * i:at + 2 + 3 * n * (i + 1)]
                assert runs[0::3] == runs[2::3] == ["clock"] * n
                assert [event[:2] for event in runs[1::3]] == [(name, args)] * n
                assert ms == min(event[2] for event in runs[1::3]) / 1e6
