import dataclasses
import gc
import json
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherclust import clustering
from cipherclust.clustering import Cluster, ClusterSet, cluster_index, distribute, impact_views
from cipherclust.crypto import IdentityTokenCodec, encrypt_query, token_to_b64
from cipherclust.evaluation import load_queries
from cipherclust.index import IndexDataError, build_index_from_corpus, ingest
from cipherclust import search as search_module
from cipherclust.search import (
    HEAP_FLOOR_RATIO,
    Abstracts,
    SearchResult,
    build_abstracts,
    check_pairing,
    format_results,
    prune,
    read_abstracts,
    search,
    write_abstracts,
)

from conftest import random_index, records_from_freqs
from oracles import scan_frequency, scan_prune, scan_search


def small_cluster_set():
    idx = ingest(
        [
            ("d1", [(b"net", 3), (b"router", 2)]),
            ("d2", [(b"net", 5), (b"cake", 1)]),
            ("d3", [(b"cake", 7), (b"flour", 4)]),
        ]
    )
    clusters = (
        Cluster(center=b"net", tokens=(b"net", b"router")),
        Cluster(center=b"cake", tokens=(b"cake", b"flour")),
    )
    return ClusterSet(clusters=clusters, index=idx, k_requested=2)


class TestBuildAbstracts:
    def test_small_cluster_kept_whole(self):
        cs = small_cluster_set()
        abstracts = build_abstracts(cs, a=10)
        assert [t for t, cid in abstracts.cluster.items() if cid == 0] == [b"net", b"router"]
        assert abstracts.frequency[b"net"] == 8 and abstracts.cluster[b"net"] == 0

    def test_cardinality_cut(self):
        cs = small_cluster_set()
        abstracts = build_abstracts(cs, a=1)
        # net total 8 beats router 2; cake 8 beats flour 4
        assert abstracts.k == 2 and abstracts.cluster == {b"net": 0, b"cake": 1}

    def test_boundary_tie_keeps_smaller_ciphertext(self, tmp_path):
        idx = ingest([("d1", [(b"aa", 5), (b"zz", 5), (b"mm", 9)])])
        cs = ClusterSet(
            clusters=(Cluster(center=b"mm", tokens=(b"aa", b"mm", b"zz")),),
            index=idx,
            k_requested=1,
        )
        abstracts = build_abstracts(cs, a=2)
        assert abstracts.cluster == {b"mm": 0, b"aa": 0}
        # the rank order lives in the written line: "bW0=" is b"mm", "YWE=" is b"aa"
        path = tmp_path / "abstracts.jsonl"
        write_abstracts(abstracts, path)
        assert path.read_text() == '{"cluster":0,"entries":[["bW0=",9],["YWE=",5]]}\n'

    def test_a_must_be_positive(self):
        with pytest.raises(ValueError):
            build_abstracts(small_cluster_set(), a=0)


class TestPrune:
    def test_only_matching_cluster(self):
        abstracts = build_abstracts(small_cluster_set(), a=10)
        assert prune([b"router"], abstracts, c=3) == [0]

    def test_fallback_to_all_clusters(self):
        abstracts = build_abstracts(small_cluster_set(), a=10)
        assert prune([b"unknown"], abstracts, c=3) == range(2)

    def test_fallback_allocates_no_list_of_clusters(self):
        # a list of a million ids would take 8 MB
        assert prune([b"unknown"], Abstracts(10**6, {}, {}), c=3) == range(10**6)

    def test_top_c_by_score(self):
        abstracts = Abstracts(3, {b"q0": 5, b"q1": 3, b"q2": 1}, {b"q0": 0, b"q1": 1, b"q2": 2})
        assert prune([b"q0", b"q1", b"q2"], abstracts, c=2) == [0, 1]

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError):
            prune([b"q"], Abstracts(0, {}, {}), c=0)


class TestSearch:
    def test_frequency_order(self):
        idx = ingest([("d1", [(b"T", 3)]), ("d2", [(b"T", 5)])])
        cs = ClusterSet(
            clusters=(Cluster(center=b"T", tokens=(b"T",)),), index=idx, k_requested=1
        )
        result = search([b"T"], cs, [0], cutoff=10)
        assert result.ranked == (("d2", 5), ("d1", 3))

    def test_no_hits_gives_empty_ranking(self):
        cs = small_cluster_set()
        result = search([b"missing"], cs, [0, 1], cutoff=10)
        assert result.ranked == ()

    def test_additive_scores(self):
        idx = ingest([("d1", [(b"a", 3), (b"b", 4)]), ("d2", [(b"c", 5)])])
        cs = ClusterSet(
            clusters=(Cluster(center=b"a", tokens=(b"a", b"b", b"c")),),
            index=idx,
            k_requested=1,
        )
        result = search([b"a", b"b", b"c"], cs, [0], cutoff=10)
        assert result.ranked == (("d1", 7), ("d2", 5))

    def test_token_in_two_clusters_rejected(self):
        # search finds a token's cluster through ClusterSet.cluster_of, which needs one cluster per token
        cs = small_cluster_set()
        overlapping = (cs.clusters[0], Cluster(center=b"cake", tokens=(b"cake", b"net")))
        with pytest.raises(ValueError, match="clusters must be disjoint"):
            ClusterSet(clusters=overlapping, index=cs.index, k_requested=2)

    def test_postings_touched_counts_postings_of_selected_clusters(self):
        cs = small_cluster_set()  # net: d1, d2 in cluster 0; cake: d2, d3 in cluster 1
        assert search([b"net", b"cake", b"missing"], cs, [0], cutoff=1).postings_touched == 2
        assert search([b"net", b"cake", b"net"], cs, [0, 1], cutoff=10).postings_touched == 4

    def test_cutoff(self):
        idx = ingest([(f"d{i}", [(b"T", i + 1)]) for i in range(20)])
        cs = ClusterSet(
            clusters=(Cluster(center=b"T", tokens=(b"T",)),), index=idx, k_requested=1
        )
        assert len(search([b"T"], cs, [0], cutoff=10).ranked) == 10

    def test_selected_must_be_nonempty(self):
        with pytest.raises(ValueError):
            search([b"T"], small_cluster_set(), [], cutoff=10)

    def test_selected_is_read_once(self):
        cs = small_cluster_set()
        read = []

        def ids():
            for cid in range(cs.k_used):
                read.append(cid)
                yield cid

        assert search([b"net", b"cake"], cs, ids(), cutoff=10) == search([b"net", b"cake"], cs, [0, 1], cutoff=10)
        assert read == [0, 1]
        with pytest.raises(ValueError, match="^at least one cluster must be selected$"):
            search([b"net"], cs, (cid for cid in ()), cutoff=10)

    def test_a_result_holds_the_ranking_and_the_work_done(self):
        assert [f.name for f in dataclasses.fields(SearchResult)] == ["ranked", "postings_touched"]

    @pytest.mark.parametrize("cid", [2, -1])
    def test_selected_id_out_of_range(self, cid):
        with pytest.raises(ValueError, match=f"cluster id {cid} is out of range"):
            search([b"net"], small_cluster_set(), [0, cid], cutoff=10)

    def test_selected_id_repeated(self):
        # counting cluster 0 twice would score d1 6 instead of 3
        with pytest.raises(ValueError, match="cluster id 0 is selected twice"):
            search([b"net"], small_cluster_set(), [0, 1, 0], cutoff=10)

    @pytest.mark.parametrize("selected, fault", [
        (range(3), "cluster id 2 is out of range 0..1"),
        (range(-1, 2), "cluster id -1 is out of range 0..1"),
        (range(0), "at least one cluster must be selected"),
        ([0, 1, 2], "cluster id 2 is out of range 0..1"),
        ([-1, 0, 1], "cluster id -1 is out of range 0..1"),
        ([0, 1, 0], "cluster id 0 is selected twice"),
        ([], "at least one cluster must be selected"),
    ])
    def test_a_selection_other_than_every_cluster_is_checked(self, selected, fault):
        # range(k_used) is every id once; any other range, or any list, is checked id by id
        cs = small_cluster_set()
        with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
            search([b"net"], cs, selected, cutoff=10)
        assert search([b"net", b"cake"], cs, range(1, 2), cutoff=10) == search([b"net", b"cake"], cs, [1], cutoff=10)

    @pytest.mark.parametrize("long_at", [clustering.LONG_LIST_POSTINGS, 2])
    def test_every_cluster_as_a_range_or_a_list_searches_alike(self, monkeypatch, mini_corpus_dir, queries_path,
                                                               long_at):
        monkeypatch.setattr(clustering, "LONG_LIST_POSTINGS", long_at)  # at 2, most queries take the views
        cs, _ = cluster_index(build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), 20))
        queries = [encrypt_query(IdentityTokenCodec(), text) for _, text in load_queries(queries_path)]
        for query in queries + [cs.index.tokens()]:
            every, walked = search(query, cs, range(cs.k_used), 10), search(query, cs, list(range(cs.k_used)), 10)
            assert (every.ranked, every.postings_touched) == (walked.ranked, walked.postings_touched)
        assert bool(cs.views) == (long_at == 2)

    @pytest.mark.parametrize("cutoff", [0, -1])
    def test_cutoff_must_be_positive(self, cutoff):
        with pytest.raises(ValueError, match="result cutoff must be >= 1"):
            search([b"net"], small_cluster_set(), [0, 1], cutoff=cutoff)

    def test_ties_at_the_cutoff_rank_as_in_a_full_sort(self):
        scores = {"d0": 3, "d3": 2, "d1": 2, "d2": 2, "d4": 1}
        idx = ingest([(doc, [(b"T", f)]) for doc, f in scores.items()])
        cs = ClusterSet(clusters=(Cluster(center=b"T", tokens=(b"T",)),), index=idx, k_requested=1)
        assert search([b"T"], cs, [0], cutoff=2).ranked == (("d0", 3), ("d1", 2))
        assert search([b"T"], cs, [0], cutoff=4).ranked == (("d0", 3), ("d1", 2), ("d2", 2), ("d3", 2))

    @settings(deadline=None)
    @given(
        scores=st.dictionaries(st.sampled_from([f"d{j:02d}" for j in range(30)]), st.integers(1, 4), min_size=1),
        cutoff=st.integers(1, 32),
    )
    def test_threshold_selection_equals_full_sort(self, scores, cutoff):
        # frequencies 1..4 over up to 30 documents: most draws tie at the cutoff
        idx = ingest([(doc, [(b"T", f)]) for doc, f in scores.items()])
        cs = ClusterSet(clusters=(Cluster(center=b"T", tokens=(b"T",)),), index=idx, k_requested=1)
        want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:cutoff]
        assert search([b"T"], cs, [0], cutoff).ranked == tuple(want)

    @settings(deadline=None, max_examples=50)
    @given(
        extra_docs=st.integers(0, 600),
        n_tokens=st.integers(1, 4),
        cutoff=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_large_score_sets_match_scan_reference(self, extra_docs, n_tokens, cutoff, seed, data):
        # One token per cluster. One list holds more than HEAP_FLOOR_RATIO * cutoff documents, so
        # searching every cluster takes the heap floor; the other lists overlap it, so the seeded
        # scores get postings added. Frequencies 1..3 tie many documents at the cutoff. The postings
        # come from a seeded generator, so hypothesis shrinks a few integers, not a thousand draws.
        rng = random.Random(seed)
        n_docs = HEAP_FLOOR_RATIO * cutoff + 1 + extra_docs
        docs = [f"d{j:04d}" for j in range(n_docs)]
        sizes = [rng.randint(HEAP_FLOOR_RATIO * cutoff + 1, n_docs)] + [rng.randint(1, n_docs) for _ in range(n_tokens - 1)]
        rng.shuffle(sizes)
        tokens = [f"T{i}".encode() for i in range(n_tokens)]
        by_doc: dict[str, list[tuple[bytes, int]]] = {}
        for token, size in zip(tokens, sizes):
            for doc in rng.sample(docs, size):
                by_doc.setdefault(doc, []).append((token, rng.randint(1, 3)))
        idx = ingest(sorted(by_doc.items()))
        with pytest.MonkeyPatch.context() as mp:  # no impact views: every search takes the exact path
            mp.setattr(clustering, "LONG_LIST_POSTINGS", n_docs + 1)
            cs = ClusterSet(
                clusters=tuple(Cluster(center=t, tokens=(t,)) for t in tokens), index=idx, k_requested=n_tokens
            )
            assert cs.views == {}  # built here, under the patch
        postings = {t: list(ps.items()) for t, ps in idx.entries.items()}
        query = tokens + [b"missing"]
        some = data.draw(st.permutations(range(n_tokens)))[: data.draw(st.integers(1, n_tokens))]
        for chosen in (list(range(n_tokens)), some):
            got = search(query, cs, chosen, cutoff)
            assert got.ranked == tuple(scan_search(query, [[t] for t in tokens], postings, chosen, cutoff))
            assert got.postings_touched == sum(len(postings[tokens[cid]]) for cid in chosen)

    @pytest.mark.parametrize("cutoff", [1, 10, 24, 25, 26, 100, 999, 1000, 1001])
    def test_heap_floor_only_well_above_the_cutoff(self, monkeypatch, cutoff):
        # 1,000 scores: the heap floor is taken up to cutoff 24 (40 x 24 = 960 < 1,000) and the
        # full sort from cutoff 25 on; above 1,000 nothing is cut. Rankings match the scan either way.
        # No list gets an impact view, so the search takes the exact path.
        monkeypatch.setattr(clustering, "LONG_LIST_POSTINGS", 1001)
        rng = random.Random(cutoff)
        docs = [f"d{j:04d}" for j in range(1000)]
        tokens = [b"A", b"B"]
        by_doc = {doc: [(b"A", rng.randint(1, 5))] for doc in docs}
        for doc in rng.sample(docs, 300):
            by_doc[doc].append((b"B", rng.randint(1, 5)))
        idx = ingest(sorted(by_doc.items()))
        cs = ClusterSet(clusters=tuple(Cluster(center=t, tokens=(t,)) for t in tokens), index=idx, k_requested=2)
        heaps = []
        nlargest = search_module.heapq.nlargest
        monkeypatch.setattr(search_module.heapq, "nlargest", lambda n, it: heaps.append(n) or nlargest(n, it))
        got = search(tokens, cs, [0, 1], cutoff)
        postings = {t: list(ps.items()) for t, ps in idx.entries.items()}
        assert got.ranked == tuple(scan_search(tokens, [[t] for t in tokens], postings, [0, 1], cutoff))
        assert heaps == ([cutoff] if HEAP_FLOOR_RATIO * cutoff < 1000 else [])


def one_token_clusters(index, tokens):
    """A ClusterSet with one cluster per token, in the given order."""
    return ClusterSet(clusters=tuple(Cluster(center=t, tokens=(t,)) for t in tokens), index=index, k_requested=len(tokens))


def scan_all(index, tokens, query, chosen, cutoff):
    """scan_search over one_token_clusters(index, tokens)."""
    postings = {t: list(ps.items()) for t, ps in index.entries.items()}
    return tuple(scan_search(query, [[t] for t in tokens], postings, chosen, cutoff))


class TestThresholdPath:
    """search over impact views (Fagin's threshold algorithm) against the scan reference."""

    @settings(deadline=None, max_examples=300)
    @given(
        n_docs=st.integers(1, 60),
        n_long=st.integers(1, 4),
        n_short=st.integers(0, 3),
        top_freq=st.integers(1, 3),
        first_batch=st.sampled_from([1, 2, 5, 32]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_scan_reference(self, n_docs, n_long, n_short, top_freq, first_batch, seed, data):
        # Lists of long_at or more postings get views. Frequencies 1..top_freq tie most documents, and
        # cutoffs run past the number of documents scored, so the orders are often read out.
        rng = random.Random(seed)
        long_at = data.draw(st.integers(1, n_docs))
        docs = [f"d{j:03d}" for j in range(n_docs)]
        sizes = [rng.randint(long_at, n_docs) for _ in range(n_long)]
        sizes += [rng.randint(1, long_at - 1) for _ in range(n_short) if long_at > 1]
        tokens = [f"T{i}".encode() for i in range(len(sizes))]
        by_doc: dict[str, list[tuple[bytes, int]]] = {}
        for token, size in zip(tokens, sizes):
            for doc in rng.sample(docs, size):
                by_doc.setdefault(doc, []).append((token, rng.randint(1, top_freq)))
        idx = ingest(sorted(by_doc.items()))
        cutoff = data.draw(st.integers(1, n_docs + 3))
        query = tokens + [b"missing"]
        some = data.draw(st.permutations(range(len(tokens))))[: data.draw(st.integers(1, len(tokens)))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "LONG_LIST_POSTINGS", long_at)
            mp.setattr(search_module, "FIRST_BATCH", first_batch)
            cs = one_token_clusters(idx, tokens)
            assert set(cs.views) == set(tokens[:n_long])
            for chosen in (list(range(len(tokens))), some):
                got = search(query, cs, chosen, cutoff)
                assert got.ranked == scan_all(idx, tokens, query, chosen, cutoff)
                assert got.postings_touched <= sum(len(idx.entries[tokens[cid]]) for cid in chosen)

    def test_a_pruned_search_can_read_more_postings_than_a_full_one(self, monkeypatch):
        # A is in all 300 documents at frequency 1, S in 10 of them at 5; one cluster each. Alone, A's
        # documents all tie at the cutoff, so its order is read out. With S, S's 10 documents score
        # 6, above A's frontier of 1, before any of A's order is read.
        docs = [f"d{j:03d}" for j in range(300)]
        idx = ingest([(doc, [(b"A", 1)] + ([(b"S", 5)] if j % 30 == 0 else [])) for j, doc in enumerate(docs)])
        monkeypatch.setattr(clustering, "LONG_LIST_POSTINGS", 100)
        cs = one_token_clusters(idx, [b"A", b"S"])
        assert set(cs.views) == {b"A"}
        query = [b"A", b"S"]
        alone, both = search(query, cs, [0], cutoff=10), search(query, cs, [0, 1], cutoff=10)
        assert alone.ranked == scan_all(idx, [b"A", b"S"], query, [0], 10)
        assert both.ranked == scan_all(idx, [b"A", b"S"], query, [0, 1], 10)
        assert (alone.postings_touched, both.postings_touched) == (300, 10)

    def test_view_layout(self, monkeypatch):
        # d1 has no T; the order is by descending frequency, ties by ascending id. The ids are made at
        # run time, so each view entry is the posting dict's key object only if the view copies none.
        monkeypatch.setattr(clustering, "LONG_LIST_POSTINGS", 3)
        d0, d1, d2, d3, d4 = (f"d{j}" for j in range(5))
        idx = ingest([(d0, [(b"T", 2)]), (d1, [(b"U", 1)]), (d2, [(b"T", 5)]), (d3, [(b"T", 2)]), (d4, [(b"T", 2)])])
        views = impact_views(idx)
        assert list(views) == [b"T"]
        assert views[b"T"] == ("d2", "d0", "d3", "d4")
        keys = list(idx.entries[b"T"])
        assert all(any(doc is key for key in keys) for doc in views[b"T"])

    def test_reading_stops_once_the_cutoff_is_strictly_above_the_frontier(self, monkeypatch):
        # d000 scores 9 and every other document 1: the first batch settles cutoff 1, but at
        # cutoff 2 the second best ties every unread document at 1, so every posting is read.
        idx = ingest([("d000", [(b"T", 9)])] + [(f"d{j:03d}", [(b"T", 1)]) for j in range(1, 100)])
        monkeypatch.setattr(clustering, "LONG_LIST_POSTINGS", 50)
        cs = one_token_clusters(idx, [b"T"])
        got = search([b"T"], cs, [0], cutoff=1)
        assert got.ranked == (("d000", 9),) and got.postings_touched == search_module.FIRST_BATCH
        got = search([b"T"], cs, [0], cutoff=2)
        assert got.ranked == (("d000", 9), ("d001", 1)) and got.postings_touched == 100

    @pytest.mark.parametrize("big", [2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64])
    def test_dense_typecode_holds_the_largest_frequency(self, monkeypatch, big):
        # A holds big, B is a second long list; both get views, whatever the frequencies' width
        monkeypatch.setattr(clustering, "LONG_LIST_POSTINGS", 4)
        rng = random.Random(big)
        records = [(f"d{j}", [(b"A", big if j == 3 else rng.randint(1, 3)), (b"B", rng.randint(1, 3))]) for j in range(8)]
        idx = ingest(records)
        cs = one_token_clusters(idx, [b"A", b"B"])
        assert set(cs.views) == {b"A", b"B"}
        for cutoff in (1, 3, 9):
            for chosen in ([0], [0, 1], [1]):
                got = search([b"A", b"B"], cs, chosen, cutoff)
                assert got.ranked == scan_all(idx, [b"A", b"B"], [b"A", b"B"], chosen, cutoff)

    def test_views_hold_a_few_bytes_per_document_per_long_list(self):
        n_docs, n_long = 5000, 3
        rng = random.Random(5)
        records = [(f"d{j:04d}", [(f"T{i}".encode(), rng.randint(1, 40)) for i in range(n_long)]) for j in range(n_docs)]
        idx = ingest(records)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            views = impact_views(idx)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(views) == n_long
        # one reference per posting and one tuple header per view, plus 1 KB for the dict of views
        assert held <= 8 * n_docs * n_long + n_long * sys.getsizeof(()) + 1024, held


class TestPrunedVersusFull:
    def test_full_width_prune_equals_whole_index_search(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            index, _ = random_index(rng, int(rng.integers(4, 30)), int(rng.integers(2, 12)))
            tokens = index.tokens()
            centers = tokens[: int(rng.integers(1, min(5, len(tokens)) + 1))]
            cs = distribute(index, centers)
            abstracts = build_abstracts(cs, a=10_000)  # abstracts hold every token
            query = [tokens[i] for i in rng.choice(len(tokens), size=3, replace=False)]
            selected = prune(query, abstracts, c=cs.k_used)
            pruned = search(query, cs, selected, cutoff=10)
            full = search(query, cs, range(cs.k_used), cutoff=10)
            assert pruned.ranked == full.ranked

    def test_results_invariant_under_cluster_relabeling(self):
        rng = np.random.default_rng(43)
        index, _ = random_index(rng, 20, 8)
        tokens = index.tokens()
        cs = distribute(index, tokens[:4])
        relabeled = ClusterSet(
            clusters=tuple(reversed(cs.clusters)), index=index, k_requested=cs.k_requested
        )
        query = tokens[5:8]
        for clusters in (cs, relabeled):
            abstracts = build_abstracts(clusters, a=10_000)
            selected = prune(query, abstracts, c=2)
            result = search(query, clusters, selected, cutoff=10)
            if clusters is cs:
                base = result.ranked
            else:
                assert result.ranked == base


class TestAbstractsFile:
    def test_round_trip(self, tmp_path):
        abstracts = build_abstracts(small_cluster_set(), a=10)
        path = tmp_path / "abstracts.jsonl"
        write_abstracts(abstracts, path)
        assert read_abstracts(path) == abstracts

    # cluster 0 lists "aa" (1) before "bm" (9), out of rank order; cluster 1's abstract is empty
    UNRANKED = '{"cluster":0,"entries":[["YWE=",1],["Ym0=",9]]}\n{"cluster":1,"entries":[]}\n'

    def test_an_empty_abstract_still_counts(self, tmp_path):
        path = tmp_path / "abstracts.jsonl"
        path.write_text(self.UNRANKED)
        abstracts = read_abstracts(path)
        assert prune([b"unknown"], abstracts, c=3) == range(2)
        index = ingest([("d1", [(b"a", 1), (b"b", 1), (b"c", 1)])])
        three = ClusterSet(tuple(Cluster(center=t, tokens=(t,)) for t in (b"a", b"b", b"c")), index, 3)
        with pytest.raises(IndexDataError, match=re.escape(f"{path}: 2 abstracts for 3 clusters; cluster 2 has")):
            check_pairing(abstracts, three, path)

    def test_file_order_round_trips_byte_for_byte(self, tmp_path):
        path, again = tmp_path / "abstracts.jsonl", tmp_path / "again.jsonl"
        path.write_text(self.UNRANKED)
        write_abstracts(read_abstracts(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_held_bytes_per_entry(self, tmp_path):
        # 50 abstracts of 100 entries, as a 50-cluster build at the default abstract size writes
        rng = random.Random(5)
        path = tmp_path / "abstracts.jsonl"
        lines = [
            json.dumps({"cluster": cid, "entries": [[token_to_b64(rng.randbytes(16)), rng.randint(1, 10**4)]
                                                   for _ in range(100)]}, separators=(",", ":"))
            for cid in range(50)
        ]
        path.write_text("\n".join(lines) + "\n")
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            abstracts = read_abstracts(path)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # the two maps and the tokens: 136 bytes per entry; a tuple per entry as well took 201
        assert held <= 165 * 5_000, held
        assert abstracts.k == 50 and len(abstracts.cluster) == 5_000

    def test_format_results(self):
        idx = ingest([("d1", [(b"T", 3)]), ("d2", [(b"T", 5)])])
        cs = ClusterSet(
            clusters=(Cluster(center=b"T", tokens=(b"T",)),), index=idx, k_requested=1
        )
        text = format_results(search([b"T"], cs, [0], cutoff=10))
        assert text == "1\td2\t5\n2\td1\t3\n"

    def test_token_in_an_earlier_abstract_rejected(self, tmp_path):
        path = tmp_path / "abstracts.jsonl"
        write_abstracts(build_abstracts(small_cluster_set(), a=10), path)
        lines = path.read_text().splitlines()
        lines[1] = '{"cluster":1,"entries":[["Y2FrZQ==",8],["bmV0",8]]}'  # "cake", then "net" of cluster 0
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IndexDataError, match=re.escape(f"{path}:2: token bmV0 is also in the abstract of cluster 0")):
            read_abstracts(path)

    def test_token_listed_twice_rejected(self, tmp_path):
        path = tmp_path / "abstracts.jsonl"
        write_abstracts(build_abstracts(small_cluster_set(), a=10), path)
        lines = path.read_text().splitlines()
        lines[1] = '{"cluster":1,"entries":[["Y2FrZQ==",8],["Y2FrZQ==",4]]}'  # "cake" twice
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IndexDataError, match=re.escape(f"{path}:2:") + ".*lists a token twice"):
            read_abstracts(path)

    def test_empty_token_rejected(self, tmp_path):
        # base64 "" decodes to b"", a token no codec makes
        path = tmp_path / "abstracts.jsonl"
        write_abstracts(build_abstracts(small_cluster_set(), a=10), path)
        first = path.read_text().splitlines()[0]
        path.write_text(f'{first}\n{{"cluster":1,"entries":[["",1]]}}\n')
        with pytest.raises(IndexDataError, match=f"^{re.escape(str(path))}:2: malformed abstract line: empty token$"):
            read_abstracts(path)

    # "Y2FrZQ==" is the token b"cake"
    @pytest.mark.parametrize("line, fault", [
        ('{"cluster":1,"entries":5}', "malformed abstract line"),
        ('{"cluster":1,"entries":[[5,3]]}', "malformed abstract line"),
        ('[1]', "malformed abstract line"),
        ('{"cluster":1,"entries":[["Y2FrZQ==",1.5]]}', "frequency 1.5; need an integer >= 1"),
        ('{"cluster":1,"entries":[["Y2FrZQ==","3"]]}', "frequency '3'; need an integer >= 1"),
        ('{"cluster":1,"entries":[["Y2FrZQ==",0]]}', "frequency 0; need an integer >= 1"),
        ('{"cluster":1,"entries":[["Y2FrZQ==",-2]]}', "frequency -2; need an integer >= 1"),
        ('{"cluster":2,"entries":[["Y2FrZQ==",8]]}', "cluster id 2; ids must be 0,1,2,... in order"),
        ('{"cluster":"1","entries":[["Y2FrZQ==",8]]}', "cluster id '1'; ids must be 0,1,2,... in order"),
    ], ids=["entries-not-a-list", "token-not-a-string", "not-an-object", "float", "string",
            "zero", "negative", "id-skipped", "id-string"])
    def test_malformed_second_line_rejected(self, tmp_path, line, fault):
        path = tmp_path / "abstracts.jsonl"
        write_abstracts(build_abstracts(small_cluster_set(), a=10), path)
        first = path.read_text().splitlines()[0]
        path.write_text(f"{first}\n{line}\n")
        with pytest.raises(IndexDataError, match=re.escape(f"{path}:2:") + ".*" + re.escape(fault)):
            read_abstracts(path)


@st.composite
def query_fixtures(draw):
    """A random index split into disjoint clusters, with abstracts and a query.

    Abstract size a ranges from 1 to more than the largest cluster holds;
    the query mixes known, unknown and repeated tokens.
    """
    tokens = draw(st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=12, unique=True))
    n_docs = draw(st.integers(1, 6))
    freqs = {
        token: draw(st.dictionaries(st.sampled_from([f"d{j}" for j in range(n_docs)]),
                                    st.integers(1, 9), min_size=1))
        for token in tokens
    }
    k = draw(st.integers(1, min(5, len(tokens))))
    owner = list(range(k)) + [draw(st.integers(0, k - 1)) for _ in tokens[k:]]
    members = [sorted(t for t, o in zip(tokens, owner) if o == cid) for cid in range(k)]
    clusters = tuple(
        Cluster(center=draw(st.sampled_from(m)), tokens=tuple(m)) for m in members
    )
    cs = ClusterSet(clusters=clusters, index=ingest(records_from_freqs(freqs)), k_requested=k)
    a = draw(st.integers(1, len(tokens) + 1))
    abstracts = build_abstracts(cs, a)
    unknown = st.binary(min_size=1, max_size=3).filter(lambda t: t not in freqs)
    query = draw(st.lists(st.one_of(st.sampled_from(tokens), unknown), max_size=6))
    return cs, abstracts, query, draw(unknown)


class TestAgainstScanReference:
    """prune, search and abstract frequencies against the scan-based references in oracles."""

    @settings(deadline=None)
    @given(fixture=query_fixtures(), data=st.data())
    def test_matches_scan_reference(self, fixture, data):
        cs, abstracts, query, unknown = fixture
        k = cs.k_used
        ref_abstracts = [
            (cid, [(t, abstracts.frequency[t]) for t, owner in abstracts.cluster.items() if owner == cid])
            for cid in range(abstracts.k)
        ]
        cluster_tokens = [list(c.tokens) for c in cs.clusters]
        postings = {t: list(ps.items()) for t, ps in cs.index.entries.items()}
        every_token = list(cs.index.entries)

        for cid, entries in ref_abstracts:
            for token in every_token + [unknown]:
                got = abstracts.frequency[token] if abstracts.cluster.get(token) == cid else 0
                assert got == scan_frequency(entries, token)

        # drawn, repeated-token, all-zero fallback, empty and all-token queries
        queries = [query, query + query[:2], [unknown], [], every_token]
        widths = [data.draw(st.integers(1, k + 2)), k, k + 3]
        cutoff = data.draw(st.integers(1, 10))
        some = data.draw(st.permutations(range(k)))[: data.draw(st.integers(1, k))]
        for q in queries:
            for c in widths:
                selected = prune(q, abstracts, c)
                assert list(selected) == scan_prune(q, ref_abstracts, c)
                for chosen in (selected, some, list(range(k))):
                    want = scan_search(q, cluster_tokens, postings, chosen, cutoff)
                    got = search(q, cs, chosen, cutoff)
                    assert got == SearchResult(ranked=tuple(want))
